"""The bulk decode lane: steady decode ticks ride the event loop.

The one client of the engine's bulk API (``steady_ready`` /
``steady_run_stage`` / ``steady_run_valid`` / ``commit_steady_run``).
Punica runs each GPU's batches back to back (§5), so the simulator keeps
one pending step event per busy GPU, and every one of them stays an
ordinary event of the simulator's one
:class:`~repro.cluster.events.EventLoop`. On the fast path its action,
:meth:`VectorDecodeLane.try_merge`, does one of two things:

1. **Tick.** When the engine has a valid staged run (see
   :meth:`~repro.runtime.engine.GpuEngine.steady_run_valid`), the pop
   advances the run by one step without applying it: the step's metrics
   sample joins the pop-ordered log and its successor is scheduled at the
   step's end under the loop's next seq — the seq the reference step
   action gives it, so the pop order needs no bookkeeping.
2. **Stage or step.** Otherwise a steady-ready engine stages a run from
   ``now`` — its step ends priced in one set of array ops
   (:meth:`~repro.runtime.engine.GpuEngine.steady_run_stage`), capped at
   the first step that finishes a request and so that no step can evict
   — and this pop is the run's first tick. Any other engine takes the
   scalar :meth:`~repro.runtime.engine.GpuEngine.step`.

Commits are lazy. The loop calls :meth:`VectorDecodeLane.settle` before
every event that is not a step and before ``run`` returns: it closes the
open trace block, applies every engine's popped prefix in bulk with
``commit_steady_run`` (the rest of each run stays staged) and hands each
request's new tokens to the simulator's token sink as one chunk. The
metrics log waits for the loop to return (or to fill). A step pop
commits its own engine where it must
— a run's finishing step commits through it at its pop, its finished
requests leaving in slot order — and settles every engine only where
placement reads the fleet: a finish while requests wait, and any
eviction.

So an outside change needs no per-event code: it runs after a settle,
and an admit, a cancel, a migration, a crash or a slowdown breaks the
run's validity, which turns the engine's next pop into a restage or a
scalar step. The differential equivalence harness
(``tests/test_fastpath_differential.py``) pins the end-to-end claim
byte-for-byte.
"""

from __future__ import annotations

import numpy as np


class _Run:
    """One engine's staged run and how far the loop has popped it."""

    __slots__ = (
        "gpu_id", "engine", "action", "ends_np", "ends", "batch", "fbatch",
        "steps", "finishes", "popped", "done", "block_from", "lane",
    )

    def __init__(self, gpu_id: str, engine, action, staged) -> None:
        ends_np, batch, finishes = staged
        self.gpu_id = gpu_id
        self.engine = engine
        self.action = action
        """The GPU's step closure, which every successor event runs."""
        self.ends_np = ends_np
        self.ends = ends_np.tolist()
        """``ends[k]`` starts step ``k`` and ends step ``k - 1``."""
        self.batch = batch
        self.fbatch = float(batch)
        self.steps = len(self.ends) - 1
        self.finishes = finishes
        """Whether the run's last step finishes requests."""
        self.popped = 0
        """Steps the loop has popped."""
        self.done = 0
        """Steps applied to the engine (``commit_steady_run``)."""
        self.block_from = 0
        """The first popped step not yet recorded in a trace block."""
        self.lane = -1
        """The run's lane in the open trace block; -1 while it has no
        tick there."""


class VectorDecodeLane:
    """The decode lane bound to one :class:`ClusterSimulator`."""

    LOG_LIMIT = 1024
    """Samples the metrics log holds at most. No event reads the step
    series, so only ``run``'s return needs the log flushed; the limit
    bounds its memory."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.merges = 0
        """Runs staged — each the start of a stretch of ticks committed in
        bulk. Diagnostic, like the counts below: kept out of the metrics
        registry so differential runs compare equal."""
        self.merged_steps = 0
        """Steps popped as ticks of staged runs (each applied in bulk)."""
        self.finishes = 0
        """Finishing steps committed at their pop."""
        self._runs: "dict[str, _Run]" = {}
        self._unapplied = False
        """Whether a tick popped since the last settle."""
        # The pop-ordered metrics log: one sample per tick or scalar step,
        # and per-GPU spans of consecutive applied steps.
        self._times: "list[float]" = []
        self._tokens: "list[float]" = []
        self._segments: list = []
        self._block: "list[_Run]" = []
        """Under a tracer, the runs with ticks in the open trace block, in
        lane order."""
        self._order: "list[int]" = []
        """The lane of each tick in the open trace block, in pop order."""

    def try_merge(self, gpu_id: str, engine, now: float) -> bool:
        """Take the step event of ``engine``, which just fired at
        ``now``: tick its staged run, or stage one from ``now`` and tick
        it. Returns False when the caller must run the scalar step."""
        sim = self.sim
        lane_open = sim.handoff is None and not sim._recovering
        run = self._runs.get(gpu_id)
        if run is None or not (
            lane_open and run.popped < run.steps and engine.steady_run_valid()
        ):
            if run is not None:
                # Stale or spent: apply what was popped, drop the rest.
                if run.popped > run.done:
                    self._commit(run)
                del self._runs[gpu_id]
            staged = (
                engine.steady_run_stage(now)
                if lane_open and engine.fast_path and engine.steady_ready()
                else None
            )
            if staged is None:
                # A scalar step: its own trace records follow the open
                # block.
                if self._block:
                    self._close_block()
                return False
            run = self._runs[gpu_id] = _Run(
                gpu_id, engine, sim._step_action(gpu_id), staged
            )
            self.merges += 1
        # The tick: logged in pop order, applied at the next settle.
        k = run.popped = run.popped + 1
        self.merged_steps += 1
        self._unapplied = True
        times = self._times
        times.append(now)
        self._tokens.append(run.fbatch)
        if len(times) >= self.LOG_LIMIT:
            self._flush()
        if sim.tracer is not None:
            lane = run.lane
            if lane < 0:
                lane = run.lane = len(self._block)
                self._block.append(run)
            self._order.append(lane)
        if k < run.steps or not run.finishes:
            sim.loop.schedule_step(run.ends[k], run.action)
        else:
            self._finish(run)
        return True

    def _finish(self, run: _Run) -> None:
        """The run's finishing step: commit the run through it, let the
        finished requests go, drain the queue — every engine settled
        first when requests wait, since placement reads them — and go on
        from the step's end, or drop out idle."""
        sim = self.sim
        end = run.ends[run.popped]
        gpu_id = run.gpu_id
        self._commit(run)
        del self._runs[gpu_id]
        self.finishes += 1
        if sim.scheduler.queue_depth:
            self.settle(False)
        sim._drain_queue(end)
        if run.engine.is_idle:
            sim._gpu_busy[gpu_id] = False
        else:
            sim.loop.schedule_step(end, run.action)

    def record_step(self, gpu_id: str, report) -> None:
        """A scalar step's metrics sample: straight to the metrics when the
        log is empty, else behind what it holds, in pop order."""
        if not (self._times or self._segments):
            self.sim.metrics.record_step(
                gpu_id, report.start, report.end, report.tokens_generated,
                report.batch_size,
            )
            return
        tokens = float(report.tokens_generated)
        self._times.append(report.start)
        self._tokens.append(tokens)
        self._segments.append(
            (gpu_id, (report.start, report.end), report.batch_size, tokens)
        )

    def settle(self, returning: bool) -> None:
        """Apply every tick popped since the last settle — the open trace
        block and every engine's popped prefix — and, when ``returning``
        (the loop is handing control back to its caller, who may read
        the metrics), flush the metrics log."""
        if self._unapplied:
            self._unapplied = False
            if self._block:
                self._close_block()
            for run in self._runs.values():
                if run.popped > run.done:
                    self._commit(run)
        if returning:
            # Only an engine with a run here can lag behind its commits:
            # every other one left its run through a scalar step or a
            # finish, and both write back.
            for run in self._runs.values():
                run.engine.write_back()
            if self._times or self._segments:
                self._flush()

    def _flush(self) -> None:
        """Hand the metrics log to the metrics. A tick not yet applied
        has its sample in the global series already; its per-GPU span
        follows when it is applied, still in that GPU's step order."""
        self.sim.metrics.record_step_merge(
            np.array(self._times), np.array(self._tokens), self._segments
        )
        self._times = []
        self._tokens = []
        self._segments = []

    def _commit(self, run: _Run) -> None:
        """Apply ``run``'s popped, not yet applied steps: one token-sink
        chunk per request, one span of per-GPU bounds."""
        if self._block:
            # The block's lanes read the engines' state before it changes.
            self._close_block()
        d = run.done
        n = run.popped
        k = n - d
        engine = run.engine
        sink = self.sim.token_sink
        reqs = engine.all_requests() if sink is not None else ()
        engine.commit_steady_run(k)
        run.done = n
        self._segments.append(
            (run.gpu_id, run.ends_np[d:n + 1], run.batch, run.fbatch * k)
        )
        if reqs:
            engine.write_back()
            # The armed batch is the whole working set, and none of it
            # holds a token: only a handoff holds one, and a simulation
            # with a handoff stages no run.
            times = tuple(run.ends[d + 1:n + 1])
            for req in reqs:
                sink(req.request_id, tuple(req.generated_tokens[-k:]), times)

    def _close_block(self) -> None:
        """Record the open block's ticks as one trace run block, in pop
        order: one lane per engine, read off its armed batch — the ids and
        token offsets as they stand, shifted by the step count at the
        block's first tick — so the cost is per engine, not per request."""
        lanes = []
        for run in self._block:
            armed = run.engine._steady
            first = run.block_from
            last = run.block_from = run.popped
            run.lane = -1
            # The engine's step count stands at the run's applied prefix.
            lanes.append((
                run.gpu_id, tuple(armed.ids), tuple(armed.tok0),
                armed.steps - run.done + first, run.ends[first:last + 1],
            ))
        self.sim.tracer.decode_run(lanes, self._order)
        self._block = []
        self._order = []
