"""The bulk decode-run lane: vectorized steady-decode merge.

The one client of the engine's bulk API (``steady_ready`` /
``steady_run_stage`` / ``commit_steady_run``). When several GPUs are
mid-decode their step events interleave densely: each engine's next tick
lands before any other engine finishes one, so no single engine ever
owns a window wider than one step. This module commits whole runs
anyway by *replaying the event queue's own pop order* over every steady
engine's priced decode run, starting from the step event that just
fired — a lone engine's run is simply a merge with one lane:

1. Each steady-armed engine prices its future step latencies in one set
   of array ops (:meth:`~repro.runtime.engine.GpuEngine.steady_run_stage`),
   capped at the first step that finishes a request and so that no step
   could evict or exhaust KvCache headroom — every step before the cap
   is provably a pure tick. The finishing step itself is replayed only
   while the scheduler's wait queue is empty: its queue drain is then a
   no-op, and nothing inside a replay can enqueue (arrivals and
   evictions are foreign events). Otherwise the run stops one step
   short of it and the finish runs as a scalar
   :meth:`~repro.runtime.engine.GpuEngine.step`.
2. The step event of a non-steady engine — a prefill joining its
   decodes, typically — is replayed too, as one scalar
   :meth:`~repro.runtime.engine.GpuEngine.step` at its pop, while nobody
   waits in the queue and :meth:`~repro.runtime.engine.GpuEngine.step_is_plain`
   holds (the step runs a batch and evicts nothing). Its engine then
   re-arms and joins with a decode run, takes another scalar step, or
   drops out idle.
3. The lane computes the merge *horizon*: the first pending event that
   it cannot replay (an arrival, fault, migration or prefetch tick, a
   scalar step that could evict, come back empty or admit a waiter, a
   speculative engine's step, the run's ``until``).
4. A private heap replays the exact ``(time, seq)`` pop order the real
   queue would produce: consumed real events keep their scheduling
   ``seq``; successor ticks created mid-merge get virtual keys above
   every pending ``seq``, assigned in creation order — exactly the order
   the reference loop would have assigned them. When a finishing tick
   pops, its engine's run is committed through it, the finished
   requests leave in slot order, the step's (empty) queue drain runs,
   and the engine re-arms, restages from the step's end and pushes its
   successor — or, idle, drops out with no successor, as a scalar step
   leaves it.
5. Committed runs are applied per engine in bulk, one segment per
   finish and one at the end; metrics per segment and — when a tracer
   is attached — run blocks of every engine's ``DECODE_STEP`` events are
   recorded in pop order (a finish or a scalar step closes the open
   block, so its own events follow it); each request's segment goes to the
   simulator's token sink as one chunk; the loop's clock/processed
   count advance by the replay, and each busy engine's one outstanding
   successor event is materialized as a real scheduled event *in
   creation order*, so every relative ``(time, seq)`` comparison any
   future event can make is unchanged.

Replaying may shift absolute ``seq`` values, but the relative
scheduling order of any two events that ever coexist in the queue — and
therefore every tie-break — is preserved. The differential
equivalence harness (``tests/test_fastpath_differential.py``) pins the
end-to-end claim byte-for-byte.
"""

from __future__ import annotations

import heapq

import numpy as np


STOP_REASONS = (
    "foreign", "run_cap", "unstageable", "blocked_finish", "scalar", "until",
    "idle",
)
"""Why a merge's replay stopped: the first pending event that is no step
of the lane; an engine's run cap (KvCache headroom or the run-length
bound); an engine whose next tick could not be staged; a finish held
back because requests wait in the queue; a scalar step the lane could
not replay (it could evict or come back empty, requests wait, or the
engine is speculative); the loop's ``until``; or every engine went idle
with nothing else pending. A replay that runs out of ticks counts under
the horizon in force when it did."""

_SCALAR = (None, 0, 1, "scalar")
"""The staged-run record of an engine whose next pop is a scalar step."""


class VectorDecodeLane:
    """Merge-replay driver bound to one :class:`ClusterSimulator`."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.merges = 0
        self.merged_steps = 0
        self.finishes = 0
        """Finishing steps committed inside a replay."""
        self.scalar_steps = 0
        """Scalar ``GpuEngine.step`` calls replayed inside merges (not
        counted in ``merged_steps``)."""
        self.stops = dict.fromkeys(STOP_REASONS, 0)
        """Committed merges by the reason their replay stopped (see
        :data:`STOP_REASONS`). Like ``merges``, diagnostic only — kept
        out of the metrics registry so differential runs compare equal."""

    @staticmethod
    def _stage(engine, start: float, finish_ok: bool):
        """Stage ``engine``'s run from ``start``: ``(ends, batch, steps,
        cap)``, where ``cap`` says what ends the run after ``steps`` pops
        — ``"finish"`` (its last step finishes requests, committed in the
        replay), ``"blocked_finish"`` (that step is cut because
        ``finish_ok`` is false), ``"run_cap"``, or ``"unstageable"``.
        ``steps == 0`` when not one step can be replayed."""
        staged = engine.steady_run_stage(start)
        if staged is None:
            return None, 0, 0, "unstageable"
        ends, batch, finishes = staged
        steps = len(ends) - 1
        if not finishes:
            return ends, batch, steps, "run_cap"
        if finish_ok:
            return ends, batch, steps, "finish"
        return ends, batch, steps - 1, "blocked_finish"

    def try_merge(self, e0_gpu: str, e0_engine, now: float) -> int:
        """Replay one or more engines' steps from E0's step event, which
        just fired at ``now``; returns the steps committed (0 = no merge).

        The loop has already popped and will count that event, and the
        caller has not run its step yet: the replay commits it as its
        guaranteed first pop (it was the queue minimum, or it would not
        have fired), then every pop the queue would make next up to the
        horizon. On success the committed prefix of every participating
        engine's run has been applied, the loop advanced, and every busy
        engine's next step event scheduled — the caller's step action
        must simply return. On failure nothing observable changed and the
        caller runs the scalar step.
        """
        sim = self.sim
        loop = sim.loop
        info = loop.merge_info()
        if info is None:
            return 0
        until, vbase = info
        # A finishing step drains the wait queue. With nobody waiting the
        # drain is a no-op, and nothing inside the replay can enqueue
        # (arrivals and evictions are foreign events), so finishes and
        # scalar steps commit in the replay; otherwise every run stops one
        # step short of its finish and every scalar step is a cut.
        finish_ok = not sim.scheduler.queue_depth

        # Stage E0 first: it is the cheapest disqualifier (no headroom, a
        # blocked finish next tick) and staging has no observable side
        # effects, so bailing here costs nothing.
        staged0 = self._stage(e0_engine, now, finish_ok)
        if not staged0[2]:
            return 0

        # Sort the other pending step events: a steady engine's is a
        # candidate decode tick, a plain one's (see
        # ``GpuEngine.step_is_plain``) a scalar step to replay, and any
        # other engine's step is a cut. Events of engines that are gone
        # stay in the queue as foreign events.
        engines = sim.scheduler.engines
        others = []
        cuts = []
        skip_ids = set()
        for gid, handle in list(sim._step_handles.items()):
            if handle.cancelled:
                del sim._step_handles[gid]
                continue
            eng = engines.get(gid)
            if eng is None or not getattr(eng, "alive", True):
                continue
            skip_ids.add(id(handle))
            if eng.fast_path and eng.steady_ready():
                others.append((gid, handle, eng, True))
            elif eng.fast_path and finish_ok and eng.step_is_plain():
                others.append((gid, handle, eng, False))
            else:
                cuts.append(handle.time)

        h_dyn = loop.peek_time_excluding(skip_ids)
        h_why = "foreign"
        if cuts and (h_dyn is None or min(cuts) < h_dyn):
            h_dyn = min(cuts)
            h_why = "scalar"
        if h_dyn is not None and h_dyn <= now:
            return 0

        # Stage the steady ones. A candidate that fails staging keeps its
        # real event, which clamps the replay horizon below it.
        gids = [e0_gpu]
        lane = [e0_engine]
        handles: "list[object | None]" = [None]
        runs = [staged0]
        for gid, handle, eng, steady in others:
            if steady:
                staged = self._stage(eng, handle.time, finish_ok)
                if not staged[2]:
                    if h_dyn is None or handle.time < h_dyn:
                        h_dyn = handle.time
                        h_why = staged[3]
                    continue
            else:
                staged = _SCALAR
            gids.append(gid)
            lane.append(eng)
            handles.append(handle)
            runs.append(staged)
        if h_dyn is not None and h_dyn <= now:
            return 0

        # Per engine, its current staged run (a finish restages it):
        # step ends, batch, steps available, what caps it, and the pops
        # committed from it so far. An engine whose next pop is a scalar
        # step has no run: its cap reads "scalar".
        n_eng = len(lane)
        ends_np = [r[0] for r in runs]
        ends = [None if a is None else a.tolist() for a in ends_np]
        batches = [r[1] for r in runs]
        fbatch = [float(b) for b in batches]
        avail = [r[2] for r in runs]
        caps = [r[3] for r in runs]
        committed = [0] * n_eng
        # Each engine's one outstanding successor tick, made when its last
        # replayed pop did: its due time and creation index. An engine
        # whose real event has not popped keeps it queued, and one that
        # goes idle at a finish schedules nothing.
        succ_time = [0.0] * n_eng
        succ_order = [0] * n_eng
        succ_live = [False] * n_eng

        tracer = sim.tracer
        sink = sim.token_sink
        # Under a tracer the replay's DECODE_STEP events go out as run
        # blocks in pop order; a committed finish or a scalar step closes
        # the open block so its own events follow it, as in the reference.
        block_from = [0] * n_eng
        block_start = 0
        segments = []

        def close_block() -> None:
            nonlocal block_start
            slot_of: "dict[int, int]" = {}
            lanes = []
            order = []
            for j in merged_i[block_start:]:
                k = slot_of.get(j)
                if k is None:
                    k = slot_of[j] = len(lanes)
                    lanes.append(
                        lane[j].steady_trace_lane(block_from[j], committed[j])
                    )
                    block_from[j] = committed[j]
                order.append(k)
            tracer.decode_run(lanes, order)
            block_start = len(merged_i)

        def commit(j: int) -> None:
            """Apply engine ``j``'s committed pops of its staged run: one
            token-sink chunk per request, one span of per-GPU bounds."""
            n = committed[j]
            eng = lane[j]
            reqs = eng.all_requests() if sink is not None else ()
            eng.commit_steady_run(n)
            segments.append((gids[j], ends_np[j][:n + 1], batches[j]))
            if reqs:
                # The armed batch is the whole working set, and none of
                # it holds a token: only a handoff holds one, and handoff
                # simulations never merge.
                times = tuple(ends[j][1:n + 1])
                for req in reqs:
                    sink(req.request_id, tuple(req.generated_tokens[-n:]), times)

        def key_successor(j: int, nxt: float) -> None:
            """Key busy engine ``j``'s next step, due at ``nxt``, under the
            next virtual key: a restaged decode run, a scalar step, or —
            when neither can be replayed — the horizon, where the tick
            fires as a real event."""
            nonlocal h_dyn, h_why
            eng = lane[j]
            if eng.steady_ready():
                staged = self._stage(eng, nxt, finish_ok)
                why = staged[3]
            else:
                staged = _SCALAR if eng.step_is_plain() else None
                why = "scalar"
            if staged is None or not staged[2]:
                if h_dyn is None or nxt < h_dyn:
                    h_dyn = nxt
                    h_why = why
                return
            ends_np[j], batches[j], avail[j], caps[j] = staged
            if staged is not _SCALAR:
                ends[j] = ends_np[j].tolist()
                fbatch[j] = float(batches[j])
            heapq.heappush(heap, (nxt, vbase + next_idx, j))

        # Replay the queue's pop order. E0's event already fired as the
        # queue minimum, so a below-every-seq key pops it first; consumed
        # real events compare by their true seq, and successor ticks by
        # virtual keys above every pending seq in creation order — the
        # seqs the reference loop would have given them.
        heap: "list[tuple[float, int, int]]" = [(now, -1, 0)]
        for i in range(1, n_eng):
            heap.append((handles[i].time, handles[i].seq, i))
        heapq.heapify(heap)
        next_idx = 0
        pops = 0
        scalar_pops = 0
        merged_t: "list[float]" = []
        merged_b: "list[float]" = []
        merged_i: "list[int]" = []
        while heap:
            t, _key, i = heap[0]
            if h_dyn is not None and t >= h_dyn:
                stop = h_why
                break
            if until is not None and t > until:
                stop = "until"
                break
            heapq.heappop(heap)
            handle = handles[i]
            if handle is not None:
                handle.cancel()
                handles[i] = None
            pops += 1
            succ_order[i] = next_idx
            succ_live[i] = True
            if caps[i] == "scalar":
                # A plain step of a non-steady engine (a prefill joining
                # its decodes): run it as the step event would, its
                # metrics sample in pop order, after the open run block.
                if tracer is not None and block_start < len(merged_i):
                    close_block()
                eng = lane[i]
                report = eng.step(t)
                nxt = succ_time[i] = report.end
                merged_t.append(t)
                # Every row of a classic step commits one token, so the
                # batch size is its token count too.
                merged_b.append(float(report.tokens_generated))
                segments.append((gids[i], (t, nxt), report.batch_size))
                scalar_pops += 1
                if sim._after_step(gids[i], eng, report):
                    key_successor(i, nxt)
                else:
                    succ_live[i] = False
                    sim._step_handles.pop(gids[i], None)
                next_idx += 1
                continue
            merged_t.append(t)
            merged_b.append(fbatch[i])
            merged_i.append(i)
            ki = committed[i] + 1
            committed[i] = ki
            nxt = succ_time[i] = ends[i][ki]
            if ki < avail[i]:
                heapq.heappush(heap, (nxt, vbase + next_idx, i))
            elif caps[i] != "finish":
                # Run exhausted: the successor might finish a request or
                # need the general path, so it must fire as a real event —
                # nothing may be replayed past it.
                if h_dyn is None or nxt < h_dyn:
                    h_dyn = nxt
                    h_why = caps[i]
            else:
                # The finishing step: commit the segment through it, let
                # the finished requests go, run its queue drain (a no-op:
                # nobody waits) and continue the engine from the step's
                # end as its successor tick — or drop it, idle.
                if tracer is not None:
                    close_block()
                commit(i)
                sim._drain_queue(nxt)
                self.finishes += 1
                committed[i] = block_from[i] = 0
                if lane[i].is_idle:
                    succ_live[i] = False
                    sim._gpu_busy[gids[i]] = False
                    sim._step_handles.pop(gids[i], None)
                else:
                    key_successor(i, nxt)
            next_idx += 1
        else:
            # Out of ticks: every engine hit its cap or went idle.
            stop = h_why if h_dyn is not None else "idle"

        # Apply each engine's committed prefix in bulk, then account the
        # replay and materialize successors in creation order so their
        # relative seqs match what the reference loop assigned.
        if tracer is not None and block_start < len(merged_i):
            close_block()
        for i in range(n_eng):
            if committed[i]:
                commit(i)
        sim.metrics.record_step_merge(
            np.array(merged_t), np.array(merged_b), segments
        )
        # The loop counts E0's own pop when this action returns.
        loop.consume_merged(pops - 1, merged_t[-1])
        order = sorted(
            (i for i in range(n_eng) if succ_live[i]),
            key=succ_order.__getitem__,
        )
        for i in order:
            h = loop.schedule(succ_time[i], sim._step_action(gids[i]))
            sim._step_handles[gids[i]] = h
        self.merges += 1
        self.merged_steps += pops - scalar_pops
        self.scalar_steps += scalar_pops
        self.stops[stop] += 1
        return pops
