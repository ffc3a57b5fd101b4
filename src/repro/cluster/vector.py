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
   is provably a pure tick, and the finishing step is replayed too.
2. The step event of a non-steady engine — a prefill joining its
   decodes, typically — is replayed too, as one scalar
   :meth:`~repro.runtime.engine.GpuEngine.step` at its pop, while
   :meth:`~repro.runtime.engine.GpuEngine.step_is_plain` holds (the step
   runs a batch and evicts nothing). Its engine then re-arms and joins
   with a decode run, takes another scalar step, or drops out idle.
3. Simulator code that may place requests runs inside the replay as a
   *scheduler pass*: a streamed arrival (pulled straight from the
   workload's stream under its reserved seq), and the queue drain of a
   finishing tick or a replayed scalar step while requests wait. A pass
   closes the open trace block, commits every lane engine's popped
   prefix (the rest of its run stays staged) so the router reads exactly
   the reference state, and runs the ordinary simulator code —
   ``ClusterSimulator._arrive`` / ``_drain_queue`` / ``_after_step``.
   Every lane engine it admitted to is re-keyed: its next pop becomes a
   scalar step, or the horizon. An engine it woke from idle gets its step
   as a real event under the next key, and the replay stops there.
4. The lane computes the merge *horizon*: the first pending event that
   it cannot replay (a fault, a migration or prefetch tick, an arrival
   scheduled one by one, a scalar step that could evict or come back
   empty, a speculative engine's step, a woken engine's step, the run's
   ``until``).
5. A private heap replays the exact ``(time, seq)`` pop order the real
   queue would produce: consumed real events and streamed arrivals keep
   their ``seq``; successor ticks created mid-merge take the loop's next
   seqs in creation order — exactly the seqs the reference loop gives
   them, a pass's kicks included. When a finishing tick pops, its
   engine's run is committed through it, the finished requests leave in
   slot order, the step's queue drain runs, and the engine re-arms,
   restages from the step's end and pushes its successor — or, idle,
   drops out with no successor, as a scalar step leaves it.
6. Committed runs are applied per engine in bulk, one segment per pass
   or finish and one at the end; metrics per segment and — when a tracer
   is attached — run blocks of every engine's ``DECODE_STEP`` events are
   recorded in pop order (a pass, a finish or a scalar step closes the
   open block, so its own events follow it); each request's segment goes
   to the simulator's token sink as one chunk; the loop's clock/processed
   count advance by the replay, and each busy engine's one outstanding
   successor event and the stream's first unconsumed arrival are queued
   as real events under their own seqs.

So every event keeps the seq the reference loop gives it, and every
tie-break is preserved. The differential equivalence harness
(``tests/test_fastpath_differential.py``) pins the end-to-end claim
byte-for-byte.
"""

from __future__ import annotations

import heapq

import numpy as np


STOP_REASONS = (
    "foreign", "run_cap", "unstageable", "scalar", "kick", "until", "idle",
)
"""Why a merge's replay stopped: the first pending event that is no pop
of the lane; an engine's run cap (KvCache headroom or the run-length
bound); an engine whose next tick could not be staged; a scalar step the
lane could not replay (it could evict or come back empty, or the engine
is speculative); a scheduler pass that woke an idle engine, whose step
is then a real event; the loop's ``until``; or every engine went idle
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
        self.arrivals = 0
        """Streamed arrivals replayed inside merges."""
        self.drains = 0
        """Queue drains with requests waiting replayed inside merges — a
        finishing tick's or a replayed scalar step's."""
        self.stops = dict.fromkeys(STOP_REASONS, 0)
        """Committed merges by the reason their replay stopped (see
        :data:`STOP_REASONS`). Like ``merges``, diagnostic only — kept
        out of the metrics registry so differential runs compare equal."""

    @staticmethod
    def _stage(engine, start: float):
        """Stage ``engine``'s run from ``start``: ``(ends, batch, steps,
        cap)``, where ``cap`` says what ends the run after ``steps`` pops
        — ``"finish"`` (its last step finishes requests, committed in the
        replay), ``"run_cap"``, or ``"unstageable"`` (``steps == 0``: not
        one step can be replayed)."""
        staged = engine.steady_run_stage(start)
        if staged is None:
            return None, 0, 0, "unstageable"
        ends, batch, finishes = staged
        return ends, batch, len(ends) - 1, "finish" if finishes else "run_cap"

    def try_merge(self, e0_gpu: str, e0_engine, now: float) -> int:
        """Replay one or more engines' steps from E0's step event, which
        just fired at ``now``; returns the events consumed (0 = no merge).

        The loop has already popped and will count that event, and the
        caller has not run its step yet: the replay commits it as its
        guaranteed first pop (it was the queue minimum, or it would not
        have fired), then every pop the queue would make next up to the
        horizon — decode ticks, scalar steps and streamed arrivals. On
        success the committed prefix of every participating engine's run
        has been applied, the loop advanced, and every busy engine's next
        step event and the stream's next arrival scheduled — the caller's
        step action must simply return. On failure nothing observable
        changed and the caller runs the scalar step.
        """
        sim = self.sim
        loop = sim.loop
        info = loop.merge_info()
        if info is None:
            return 0
        until, next_seq = info
        scheduler = sim.scheduler

        # Stage E0 first: it is the cheapest disqualifier (no headroom)
        # and staging has no observable side effects, so bailing here
        # costs nothing.
        staged0 = self._stage(e0_engine, now)
        if not staged0[2]:
            return 0

        # Sort the other pending step events: a steady engine's is a
        # candidate decode tick, a plain one's (see
        # ``GpuEngine.step_is_plain``) a scalar step to replay, and any
        # other engine's step is a cut. Events of engines that are gone
        # stay in the queue as foreign events.
        engines = scheduler.engines
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
            elif eng.fast_path and eng.step_is_plain():
                others.append((gid, handle, eng, False))
            else:
                cuts.append(handle.time)
        # The streamed workload's queued arrival is a pop of the replay
        # too; the ones after it come straight from its stream.
        arrival = sim._next_arrival
        if arrival is not None:
            arr_handle, arr_item, stream = arrival
            skip_ids.add(id(arr_handle))

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
                staged = self._stage(eng, handle.time)
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
        # step ends, batch, steps available, what caps it, the pops
        # replayed from it, and how many of those the engine has applied
        # (a scheduler pass commits every engine's popped prefix, and the
        # rest of its run stays staged). An engine whose next pop is a
        # scalar step has no run: its cap reads "scalar".
        n_eng = len(lane)
        ends_np = [r[0] for r in runs]
        ends = [None if a is None else a.tolist() for a in ends_np]
        batches = [r[1] for r in runs]
        fbatch = [float(b) for b in batches]
        avail = [r[2] for r in runs]
        caps = [r[3] for r in runs]
        committed = [0] * n_eng
        done = [0] * n_eng
        # Each engine's one outstanding successor step, made when its last
        # replayed pop did: its due time and its seq — the one the
        # reference loop gives it, since every key handed out here is the
        # loop's next seq. An engine whose real event has not popped keeps
        # it queued, and one that goes idle schedules nothing.
        succ_time = [0.0] * n_eng
        succ_seq = [0] * n_eng
        succ_live = [False] * n_eng

        tracer = sim.tracer
        sink = sim.token_sink
        # Under a tracer the replay's DECODE_STEP events go out as run
        # blocks in pop order; a scheduler pass, a committed finish or a
        # scalar step closes the open block so its own events follow it,
        # as in the reference.
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
                    # The engine's staged run starts after its applied
                    # prefix.
                    lanes.append(lane[j].steady_trace_lane(
                        block_from[j] - done[j], committed[j] - done[j]
                    ))
                    block_from[j] = committed[j]
                order.append(k)
            tracer.decode_run(lanes, order)
            block_start = len(merged_i)

        def commit(j: int) -> None:
            """Apply engine ``j``'s popped, not yet applied steps: one
            token-sink chunk per request, one span of per-GPU bounds."""
            d = done[j]
            n = committed[j]
            k = n - d
            eng = lane[j]
            reqs = eng.all_requests() if sink is not None else ()
            eng.commit_steady_run(k)
            done[j] = n
            segments.append((gids[j], ends_np[j][d:n + 1], batches[j]))
            if reqs:
                # The armed batch is the whole working set, and none of
                # it holds a token: only a handoff holds one, and handoff
                # simulations never merge.
                times = tuple(ends[j][d + 1:n + 1])
                for req in reqs:
                    sink(req.request_id, tuple(req.generated_tokens[-k:]), times)

        def set_run(j: int, staged) -> None:
            ends_np[j], batches[j], avail[j], caps[j] = staged
            if staged is not _SCALAR:
                ends[j] = ends_np[j].tolist()
                fbatch[j] = float(batches[j])
            committed[j] = done[j] = block_from[j] = 0

        def horizon(at: float, why: str) -> None:
            """Nothing at or past ``at`` replays: it fires as a real event."""
            nonlocal h_dyn, h_why
            if h_dyn is None or at < h_dyn:
                h_dyn = at
                h_why = why

        def key_successor(j: int, nxt: float) -> None:
            """Key busy engine ``j``'s next step, due at ``nxt``, under the
            next seq: a restaged decode run, a scalar step, or — when
            neither can be replayed — the horizon, where the step fires as
            a real event."""
            nonlocal next_seq
            succ_time[j] = nxt
            key = succ_seq[j] = next_seq
            succ_live[j] = True
            next_seq += 1
            eng = lane[j]
            if eng.steady_ready():
                staged = self._stage(eng, nxt)
                why = staged[3]
            else:
                staged = _SCALAR if eng.step_is_plain() else None
                why = "scalar"
            if staged is None or not staged[2]:
                horizon(nxt, why)
                return
            set_run(j, staged)
            heapq.heappush(heap, (nxt, key, j))

        def scheduler_pass(at: float, popping: int, body, *args):
            """Run simulator code that may place requests — an arrival or
            a queue drain at ``at`` — inside the replay, and return what
            ``body`` returns.

            Every engine first applies its popped prefix, so the router
            reads exactly the reference state, and the loop's seq counter
            catches up with the keys handed out, so a step the pass kicks
            takes the key the reference gives it. Such a kick (an idle
            engine woken at ``at``) stays a real event and ends the
            replay there. Every other lane engine the pass admitted to
            (``popping`` keys its own successor) is re-keyed: its next pop
            becomes a scalar step, or the horizon."""
            nonlocal next_seq
            if tracer is not None and block_start < len(merged_i):
                close_block()
            for j in range(n_eng):
                if committed[j] > done[j]:
                    commit(j)
            loop.reserve(next_seq - loop.reserve(0))
            result = body(*args)
            after = loop.reserve(0)
            if after > next_seq:
                next_seq = after
                horizon(at, "kick")
            for j in range(n_eng):
                if j == popping or (handles[j] is None and not succ_live[j]):
                    continue
                eng = lane[j]
                if caps[j] == "scalar":
                    if eng.step_is_plain():
                        continue
                elif eng.steady_ready():
                    continue
                elif eng.step_is_plain():
                    set_run(j, _SCALAR)
                    continue
                handle = handles[j]
                horizon(succ_time[j] if handle is None else handle.time, "scalar")
            return result

        # Replay the queue's pop order. E0's event already fired as the
        # queue minimum, so a below-every-seq key pops it first; consumed
        # real events and streamed arrivals compare by their true seq, and
        # successor steps by the seqs the reference loop gives them, above
        # every pending one and in creation order. An arrival's entry
        # carries lane index -1.
        heap: "list[tuple[float, int, int]]" = [(now, -1, 0)]
        for i in range(1, n_eng):
            heap.append((handles[i].time, handles[i].seq, i))
        if arrival is not None:
            heap.append((arr_item[0], arr_item[1], -1))
        heapq.heapify(heap)
        pops = 0
        scalar_pops = 0
        arrival_pops = 0
        drains = 0
        last_t = now
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
            pops += 1
            last_t = t
            if i < 0:
                # The workload's next arrival: its real event (if this is
                # the queued one) is spent, the stream's next takes its
                # place, and the arrival runs as a scheduler pass.
                if arr_handle is not None:
                    arr_handle.cancel()
                    arr_handle = None
                req = arr_item[2]
                arr_item = next(stream, None)
                if arr_item is not None:
                    heapq.heappush(heap, (arr_item[0], arr_item[1], -1))
                arrival_pops += 1
                scheduler_pass(t, -1, sim._arrive, req, t)
                continue
            handle = handles[i]
            if handle is not None:
                handle.cancel()
                handles[i] = None
            if caps[i] == "scalar":
                # A plain step of a non-steady engine (a prefill joining
                # its decodes): run it as the step event would, its
                # metrics sample in pop order, after the open run block.
                # Its queue drain, when a finish meets a waiter, is a
                # scheduler pass.
                if tracer is not None and block_start < len(merged_i):
                    close_block()
                eng = lane[i]
                report = eng.step(t)
                nxt = report.end
                merged_t.append(t)
                # Every row of a classic step commits one token, so the
                # batch size is its token count too.
                merged_b.append(float(report.tokens_generated))
                segments.append((gids[i], (t, nxt), report.batch_size))
                scalar_pops += 1
                if (report.finished or report.evicted) and scheduler.queue_depth:
                    drains += 1
                    busy = scheduler_pass(
                        nxt, i, sim._after_step, gids[i], eng, report
                    )
                else:
                    busy = sim._after_step(gids[i], eng, report)
                if busy:
                    key_successor(i, nxt)
                else:
                    succ_live[i] = False
                    sim._step_handles.pop(gids[i], None)
                continue
            merged_t.append(t)
            merged_b.append(fbatch[i])
            merged_i.append(i)
            ki = committed[i] + 1
            committed[i] = ki
            nxt = ends[i][ki]
            if ki < avail[i] or caps[i] != "finish":
                succ_time[i] = nxt
                succ_seq[i] = next_seq
                succ_live[i] = True
                if ki < avail[i]:
                    heapq.heappush(heap, (nxt, next_seq, i))
                else:
                    # Run exhausted: the successor might finish a request
                    # or need the general path, so it must fire as a real
                    # event — nothing may be replayed past it.
                    horizon(nxt, caps[i])
                next_seq += 1
            else:
                # The finishing step: commit the run through it, let the
                # finished requests go, run its queue drain — a scheduler
                # pass when requests wait, a no-op otherwise — and
                # continue the engine from the step's end as its successor
                # tick, or drop it, idle.
                if tracer is not None:
                    close_block()
                if scheduler.queue_depth:
                    drains += 1
                    scheduler_pass(nxt, i, sim._drain_queue, nxt)
                else:
                    # Nobody waits: the drain reads no engine and places
                    # nothing, so only this engine commits.
                    commit(i)
                    sim._drain_queue(nxt)
                self.finishes += 1
                if lane[i].is_idle:
                    succ_live[i] = False
                    sim._gpu_busy[gids[i]] = False
                    sim._step_handles.pop(gids[i], None)
                else:
                    key_successor(i, nxt)
        else:
            # Out of pops: every engine hit its cap or went idle.
            stop = h_why if h_dyn is not None else "idle"

        # Apply each engine's unapplied prefix in bulk, account the
        # replay, and materialize the successors and the stream's next
        # arrival under their own seqs.
        if tracer is not None and block_start < len(merged_i):
            close_block()
        for i in range(n_eng):
            if committed[i] > done[i]:
                commit(i)
        sim.metrics.record_step_merge(
            np.array(merged_t), np.array(merged_b), segments
        )
        # The loop counts E0's own pop when this action returns.
        loop.consume_merged(pops - 1, last_t)
        loop.reserve(next_seq - loop.reserve(0))
        for i in range(n_eng):
            if succ_live[i]:
                sim._step_handles[gids[i]] = loop.schedule(
                    succ_time[i], sim._step_action(gids[i]), succ_seq[i]
                )
        if arrival_pops:
            sim._queue_arrival(arr_item, stream)
        self.merges += 1
        self.merged_steps += pops - scalar_pops - arrival_pops
        self.scalar_steps += scalar_pops
        self.arrivals += arrival_pops
        self.drains += drains
        self.stops[stop] += 1
        return pops
